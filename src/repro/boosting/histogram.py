"""Histogram accumulation for split finding.

Gradient boosting here is *histogram-based* (as in XGBoost's ``hist`` tree
method and LightGBM): each column is pre-binned into quantile codes once,
and per-node split search reduces to bincounts of gradient/hessian over
those codes. This keeps pure-numpy training fast enough for the paper's
benchmark scale.

Two layers live here:

* :class:`NodeHistogramBuilder` — the per-tree workspace the level-order
  growers (``boosting.tree.Tree``, ``models.tree.ClassificationTree``)
  run on. It builds the ``(2 + count)``-component histograms of *all
  nodes of one tree level in a single batched pass per column* (no
  ``np.repeat(weights, n_cols)`` temporaries — weights are gathered once
  per level and shared by every column's bincount, and an all-rows root
  gathers nothing), and supports the LightGBM subtraction trick: a
  child's histogram is ``parent - sibling``, so only the smaller child
  of each split is ever accumulated from rows.
  :class:`SubtractionScheduler` does that bookkeeping for every grower,
  the out-of-core one in ``boosting.stream`` included (its builder
  gathers rows from scratch memmaps instead of index arrays).
* the scalar helpers (:func:`feature_histogram`, :func:`split_gain`,
  :func:`best_split_for_feature`) — the audited single-feature reference
  kept for tests and documentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.registry import (
    batched_kernel,
    chunk_mergeable,
    kernel_exempt,
    kernel_oracle,
)
from ..exceptions import DataError


@kernel_exempt("layout bookkeeping, not a numerical kernel")
def histogram_stride(edges: "list[np.ndarray]") -> int:
    """Fixed per-feature slot width of the histogram layout.

    Widest column's interior edges + one (``len(edges)+1`` value bins) +
    one dedicated missing bin; columns with fewer effective bins leave
    their tail slots empty.
    """
    return max(len(e) for e in edges) + 2 if edges else 2


@kernel_exempt("code remapping helper, not a numerical kernel")
def compact_codes(codes: np.ndarray, stride: int) -> np.ndarray:
    """Code matrix in the builder's preferred form: Fortran order (the
    per-column gathers stay contiguous) and uint8 whenever every code
    fits (``stride <= 256``), which keeps the whole matrix cache-resident
    across the many per-level gathers. Idempotent."""
    if int(stride) <= 256 and codes.dtype != np.uint8:
        return codes.astype(np.uint8, order="F")
    if not codes.flags.f_contiguous:
        return np.asfortranarray(codes)
    return codes


@kernel_exempt("associative merge helper for histogram partials, not a kernel")
def merge_histograms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two histogram partials: elementwise sum.

    Gradient/hessian channels are float sums, so merging re-associates
    the additions — the result matches a single-pass histogram to ≤1e-9
    relative, not bit-for-bit. The count channel is exact (integers in
    float64 well below 2**53).
    """
    return a + b


@batched_kernel(oracle="feature_histogram")
@chunk_mergeable(merge=merge_histograms, exact=False)
def level_histogram_partial(
    codes: np.ndarray,
    slots: "np.ndarray | None",
    w0: np.ndarray,
    w1: np.ndarray,
    m: int,
    stride: int,
    with_counts: bool = True,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Histogram block of one row chunk: ``(n_channels, m, n_cols, stride)``.

    The sufficient statistic of level-order split search: per (node,
    column, bin), the chunk's gradient sum, hessian sum and (optionally)
    row count. ``slots[i]`` is row ``i``'s node offset (``node * stride``);
    ``None`` means every row belongs to node 0, which keeps the single-node
    fast path's one up-front ``intp`` conversion. ``rows`` optionally
    gathers a subset of ``codes``'s rows (then ``slots``/``w0``/``w1``
    align with ``rows``, not with ``codes``): one 1-D ``take`` per column
    slice, which stays a contiguous read on the Fortran-ordered codes
    the builders keep. ``rows=None`` reads each column slice as is.

    Partials over row chunks merge by :func:`merge_histograms`; the float
    weight channels re-associate, so streamed histograms match in-memory
    ones to ≤1e-9 relative (counts are exact).
    """
    n_cols = codes.shape[1]
    n_channels = 3 if with_counts else 2
    out = np.empty((n_channels, m, n_cols, stride))
    if m == 0:
        return out
    length = m * stride
    for j in range(n_cols):
        col = codes[:, j] if rows is None else codes[:, j].take(rows)
        if slots is None:
            # One up-front intp conversion instead of one per bincount.
            key = col.astype(np.intp)
        else:
            key = col + slots
        out[0, :, j, :] = np.bincount(
            key, weights=w0, minlength=length
        ).reshape(m, stride)
        out[1, :, j, :] = np.bincount(
            key, weights=w1, minlength=length
        ).reshape(m, stride)
        if with_counts:
            out[2, :, j, :] = np.bincount(key, minlength=length).reshape(
                m, stride
            )
    return out


class NodeHistogramBuilder:
    """Per-tree histogram workspace with level-batched builds + subtraction.

    A level's histograms are one ``(n_channels, m, n_cols, stride)``
    float64 block: channel 0 and 1 are the two weight channels
    (gradient/hessian for the boosting tree, total/positive weight for
    the classification tree); with ``with_counts=True`` channel 2 is the
    row count. Callers whose stopping rules never consult per-bin counts
    (XGBoost-style ``min_child_weight``-only stopping) drop the count
    channel and save a third of the accumulation work. Counts are kept
    in float64 — they are exact integers well below 2**53, so
    parent-minus-sibling subtraction stays exact for them.

    ``build_level`` accumulates the histograms of every requested node in
    one pass per column: the nodes' row indices are concatenated, each
    row is offset by its node's slot, and a single ``bincount`` per
    (column, channel) fills a contiguous level slice. A node's handle is
    its row-index array, or ``None`` for a node that holds every row (an
    unsubsampled root, built alone): it reads the column slices and the
    weight vectors as they are, with no row gather. The grower says which
    node that is; an index array of length ``n`` is not taken to mean all
    rows, since it need not be ``arange(n)``. Per-bin
    accumulation order equals each node's row order, so a built histogram
    is bit-identical to a per-node ``bincount`` over the same rows. The
    caller derives each remaining (larger) child as ``parent - sibling``
    with one vectorized subtraction per level — the histogram-subtraction
    trick: per split, rows of only the smaller child are ever touched.
    """

    def __init__(
        self,
        codes: np.ndarray,
        stride: int,
        w0: np.ndarray,
        w1: np.ndarray,
        with_counts: bool = True,
    ):
        if codes.ndim != 2:
            raise DataError("NodeHistogramBuilder expects a 2-D code matrix")
        if w0.shape != w1.shape or w0.size != codes.shape[0]:
            raise DataError("codes/weight length mismatch")
        self.n_channels = 3 if with_counts else 2
        self.codes = compact_codes(codes, stride)
        self.stride = int(stride)
        self.n_cols = codes.shape[1]
        self.w0 = w0
        self.w1 = w1

    @batched_kernel(oracle="feature_histogram")
    def build_level(self, idx_list: "list[np.ndarray | None]") -> np.ndarray:
        """Histograms of all nodes in ``idx_list``:
        ``(n_channels, m, n_cols, stride)``.

        Each entry is a node's row indices, or ``None`` for a node that
        holds all rows and is built alone (an unsubsampled root).
        Node ``i`` of the level occupies ``[:, i]``, so a group of nodes
        is a zero-copy prefix view and the level-batched split search can
        ``cumsum``/``argmax`` each node's ``(n_cols, stride)`` table
        without transposition.
        """
        m = len(idx_list)
        if m == 0:
            return np.empty((self.n_channels, 0, self.n_cols, self.stride))
        if m == 1:
            rows = idx_list[0]
            slot = None
        else:
            rows = np.concatenate(idx_list)
            sizes = [idx.size for idx in idx_list]
            slot = np.repeat(np.arange(m, dtype=np.int64) * self.stride, sizes)
        return level_histogram_partial(
            self.codes,
            slot,
            self.w0 if rows is None else self.w0[rows],
            self.w1 if rows is None else self.w1[rows],
            m,
            self.stride,
            with_counts=self.n_channels == 3,
            rows=rows,
        )


class SubtractionScheduler:
    """Per-level bookkeeping of the histogram-subtraction growth shared by
    every level-order grower: the in-memory boosting and classification
    trees and the out-of-core streaming grower (``boosting.stream``).

    The growers hand over each realized split's children; a child is
    ``(node id, row count, build handle, will-be-searched)``, where the
    row count is exact and the build handle is opaque — whatever the
    builder's ``build_level`` accepts (row indices for
    :class:`NodeHistogramBuilder`, a node id for the streaming grower's
    scratch builder). The scheduler accumulates the smaller children to
    build, remembers which larger siblings derive by parent-minus-sibling
    subtraction, and at level end materializes the next level's
    position-aligned ``(node ids, histogram block)`` groups: the
    directly-built children as a zero-copy leading view of the build
    block, and the subtracted children with one vectorized subtraction
    per parent group.
    """

    def __init__(self, builder):
        self.builder = builder

    def begin_level(self) -> None:
        self._build_search: list = []  # handles of children entering next level
        self._build_only: list = []  # handles of children needed only as siblings
        self._built_ids: list = []
        self._sub_ids: list = []
        # (parent group, parent pos, symbolic sibling ref); sibling refs
        # resolve once the build list is final.
        self._sub_specs: "list[tuple[int, int, tuple[str, int]]]" = []

    def add_split(
        self,
        group_i: int,
        pos: int,
        left: "tuple[object, int, object, bool]",
        right: "tuple[object, int, object, bool]",
    ) -> None:
        """Register a split: ``left``/``right`` are ``(node id, row count,
        build handle, will-be-searched)``; ``(group_i, pos)`` locates the
        parent's histogram in the current level's groups."""
        if not (left[3] or right[3]):
            return
        # Accumulate only the smaller child from rows; the larger child's
        # histogram, when needed, is parent-minus-sibling.
        small, large = (left, right) if left[1] <= right[1] else (right, left)
        if small[3]:
            sibling_ref = ("search", len(self._build_search))
            self._build_search.append(small[2])
            self._built_ids.append(small[0])
        else:
            sibling_ref = ("only", len(self._build_only))
            self._build_only.append(small[2])
        if large[3]:
            self._sub_specs.append((group_i, pos, sibling_ref))
            self._sub_ids.append(large[0])

    def finish_level(self, groups: "list[tuple[list, np.ndarray]]") -> "list[tuple[list, np.ndarray]]":
        """Build this level's histograms and return the next level's groups."""
        built = self.builder.build_level(self._build_search + self._build_only)
        n_search = len(self._build_search)
        new_groups: "list[tuple[list, np.ndarray]]" = []
        if self._built_ids:
            new_groups.append((self._built_ids, built[:, :n_search]))
        if self._sub_specs:
            subs = np.empty(
                (
                    self.builder.n_channels,
                    len(self._sub_specs),
                    self.builder.n_cols,
                    self.builder.stride,
                )
            )
            for group_i in range(len(groups)):
                dst = [
                    k for k, (g, __, __2) in enumerate(self._sub_specs) if g == group_i
                ]
                if not dst:
                    continue
                parent_pos = [self._sub_specs[k][1] for k in dst]
                sib_pos = [
                    pos if kind == "search" else n_search + pos
                    for kind, pos in (self._sub_specs[k][2] for k in dst)
                ]
                # One vectorized parent-minus-sibling per parent group.
                subs[:, dst] = groups[group_i][1][:, parent_pos] - built[:, sib_pos]
            new_groups.append((self._sub_ids, subs))
        return new_groups


@dataclass(frozen=True)
class SplitCandidate:
    """Best split found for one node: feature, bin, gain and child stats."""

    feature: int
    bin_index: int
    gain: float
    grad_left: float
    hess_left: float
    grad_right: float
    hess_right: float
    n_left: int
    n_right: int


@kernel_oracle
def feature_histogram(
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    n_bins: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin (gradient sum, hessian sum, count) for one feature column."""
    if codes.size != grad.size or codes.size != hess.size:
        raise DataError("codes/grad/hess length mismatch")
    g = np.bincount(codes, weights=grad, minlength=n_bins)
    h = np.bincount(codes, weights=hess, minlength=n_bins)
    c = np.bincount(codes, minlength=n_bins)
    return g, h, c


@kernel_oracle
def split_gain(
    gl: np.ndarray,
    hl: np.ndarray,
    g_total: float,
    h_total: float,
    reg_lambda: float,
    gamma: float,
) -> np.ndarray:
    """Vectorized regularized gain for every left-prefix candidate.

    ``gain = 1/2 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)] - gamma``
    — the split objective of the XGBoost paper the authors cite.
    """
    gr = g_total - gl
    hr = h_total - hl
    parent = g_total * g_total / (h_total + reg_lambda)  # repro: ignore[div-guard] hessian sums are >= 0 and reg_lambda > 0
    gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)  # repro: ignore[div-guard] hessian sums are >= 0 and reg_lambda > 0
    return gain - gamma


@kernel_oracle
def best_split_for_feature(
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    n_bins: int,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
    min_samples_leaf: int,
) -> "SplitCandidate | None":
    """Scan all bin boundaries of one feature; return the best valid split.

    A split at bin ``b`` sends ``code <= b`` left. The last bin is the
    missing-value code, so it can never move left — missing values always
    follow the right child (a fixed default direction, documented in
    DESIGN.md).
    """
    g, h, c = feature_histogram(codes, grad, hess, n_bins)
    if n_bins < 2:
        return None
    # Candidate boundaries: after bins 0..n_bins-2 (never isolate only the
    # missing bin on the right artificially — that is still allowed and
    # simply means "missing vs rest").
    gl = np.cumsum(g)[:-1]
    hl = np.cumsum(h)[:-1]
    cl = np.cumsum(c)[:-1]
    g_total = float(g.sum())
    h_total = float(h.sum())
    n_total = int(c.sum())
    gains = split_gain(gl, hl, g_total, h_total, reg_lambda, gamma)
    cr = n_total - cl
    hr = h_total - hl
    valid = (
        (cl >= min_samples_leaf)
        & (cr >= min_samples_leaf)
        & (hl >= min_child_weight)
        & (hr >= min_child_weight)
    )
    if not valid.any():
        return None
    gains = np.where(valid, gains, -np.inf)
    b = int(np.argmax(gains))
    if not np.isfinite(gains[b]) or gains[b] <= 0:
        return None
    return SplitCandidate(
        feature=-1,  # caller fills in the real column index
        bin_index=b,
        gain=float(gains[b]),
        grad_left=float(gl[b]),
        hess_left=float(hl[b]),
        grad_right=float(g_total - gl[b]),
        hess_right=float(h_total - hl[b]),
        n_left=int(cl[b]),
        n_right=int(cr[b]),
    )
