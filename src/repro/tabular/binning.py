"""Discretization (binning) primitives.

Binning appears in three places in the paper:

* equal-frequency binning with ``beta`` bins when computing information
  value (Algorithm 3);
* quantile binning inside the histogram-based gradient boosting substrate;
* the unary *discretization* operators of Section III (equidistant,
  equal-frequency, ChiMerge, clustering binning).

All binners here share the same contract: ``fit`` learns bin edges from a
1-D column, ``transform`` maps values to integer codes in ``[0, n_bins)``,
with NaN mapped to a dedicated extra code equal to ``n_bins``.

Two layers implement that contract:

* the **oracles** — :func:`equal_frequency_edges` (``np.quantile`` with
  ``method="lower"``) and :func:`codes_from_edges` (``np.searchsorted``).
  They are the audited reference the parity tests compare against, and
  what the discretization operators and :class:`Binner` call;
* the **fit-time kernels** every SAFE fit site runs (GBM codes, eval-set
  and streamed chunk codes, the IV filter, the ranking cache):
  :func:`edges_from_sorted` picks the same edges from one ``np.sort`` of a
  column's finite values (:func:`sorted_finite`), and :func:`bin_codes`
  computes the same codes as ``len(edges) - #{e : x <= e}``, one
  vectorized comparison per edge into a uint8 counter (uint16 past 254
  edges). That costs O(rows × edges) instead of O(rows × log edges), but
  each comparison pass is a branch-free SIMD loop, so it beats the
  binary search by several times at the ≤ 64 edges any fit site uses.

Codes follow numpy's sort order, in which NaN sorts last: a NaN compares
false against every edge, so its raw code is ``len(edges)`` exactly as
``np.searchsorted`` places it. Edges must be sorted and NaN-free (they
come from finite values, or are mining thresholds that may include
``+inf``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.registry import batched_kernel, chunk_mergeable, kernel_oracle
from ..exceptions import ConfigurationError, DataError, NotFittedError

#: Default summary size of the bounded :class:`QuantileSketch`. Rank
#: error grows with (total rows / capacity); at 4096 the observed edge
#: rank error on multi-million-row columns stays well inside one bin of
#: a 64-bin histogram.
DEFAULT_SKETCH_CAPACITY = 4096


def _check_column(x: "np.ndarray | list") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError("cannot bin an empty column")
    return arr


def equal_width_edges(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior edges of ``n_bins`` equidistant bins over finite values."""
    if n_bins < 1:
        raise ConfigurationError("n_bins must be >= 1")
    finite = x[np.isfinite(x)]
    if finite.size == 0:
        return np.empty(0)
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        return np.empty(0)
    return np.linspace(lo, hi, n_bins + 1)[1:-1]


@kernel_oracle
def equal_frequency_edges(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior edges of ``n_bins`` equal-frequency (quantile) bins.

    Duplicate quantiles (from repeated values) are collapsed, so the
    effective number of bins can be smaller than requested.
    """
    if n_bins < 1:
        raise ConfigurationError("n_bins must be >= 1")
    finite = x[np.isfinite(x)]
    if finite.size == 0:
        return np.empty(0)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    # method="lower" keeps edges at observed values so duplicates collapse
    # instead of interpolating phantom boundaries between them.
    edges = np.unique(np.quantile(finite, qs, method="lower"))
    # An edge at the maximum would create a permanently-empty top bin.
    return edges[edges < finite.max()]


class QuantileSketch:
    """Mergeable streaming summary for equal-frequency edges.

    Accumulates a column one row chunk at a time and answers the same
    quantile queries :func:`equal_frequency_edges` answers from the full
    column, without ever holding (or globally sorting) all rows at once.

    The summary is a sorted list of ``(value, weight)`` pairs plus exact
    ``n_finite`` / ``min`` / ``max`` side statistics. Fresh rows are
    buffered; folding them in sorts only the buffer (numpy's default
    sort, with the run of zeros put back in arrival order because
    ``-0.0 == +0.0`` and the default sort is unstable) and merges it
    stably after the existing summary, so the summary is bit-identical to
    a stable sort of everything seen, without re-sorting the summary. With
    ``capacity=None`` the summary is unbounded: every finite value is
    retained at unit weight and :meth:`edges` is **bit-identical** to
    :func:`equal_frequency_edges` on the concatenated chunks (this is
    the ``sketch="exact"`` oracle mode of the streaming fit — it still
    pays one O(n_finite) buffer per column, but only for one column at a
    time instead of the whole matrix). With a finite ``capacity`` the
    summary is compacted by deterministic pairwise collapses whenever it
    grows past ``2 * capacity``, bounding memory at O(capacity) with an
    empirically-tested quantile rank error of O(n / capacity).

    ``update`` mutates the receiver; ``merge`` is pure and associative
    (see :func:`merge_quantile_sketches`), so per-chunk partials can be
    combined across any row sharding.
    """

    __slots__ = (
        "capacity", "n_finite", "min", "max",
        "_values", "_weights", "_buffer", "_buffer_rows", "_parity",
    )

    def __init__(self, capacity: "int | None" = DEFAULT_SKETCH_CAPACITY) -> None:
        if capacity is not None and capacity < 2:
            raise ConfigurationError("QuantileSketch capacity must be >= 2")
        self.capacity = capacity
        self.n_finite = 0
        self.min = np.inf
        self.max = -np.inf
        self._values = np.zeros(0, dtype=np.float64)
        self._weights = np.zeros(0, dtype=np.int64)
        self._buffer: "list[np.ndarray]" = []
        self._buffer_rows = 0
        self._parity = 0

    def update(self, chunk: np.ndarray) -> "QuantileSketch":
        """Fold one row chunk of the column into the summary (in place)."""
        arr = np.asarray(chunk, dtype=np.float64).ravel()
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return self
        self.n_finite += int(finite.size)
        self.min = min(self.min, float(finite.min()))
        self.max = max(self.max, float(finite.max()))
        self._buffer.append(finite)  # boolean indexing already copied
        self._buffer_rows += int(finite.size)
        if (
            self.capacity is not None
            and self._weights.size + self._buffer_rows > 2 * self.capacity
        ):
            self._compact()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Pure associative combine: the summary of both sketches' rows."""
        # The tighter bound wins in either operand order (None is unbounded).
        caps = [c for c in (self.capacity, other.capacity) if c is not None]
        out = QuantileSketch(capacity=min(caps) if caps else None)
        out.n_finite = self.n_finite + other.n_finite
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out._values, out._weights = _merge_sorted(
            *self._summary(), *other._summary()
        )
        out._parity = (self._parity + other._parity) & 1
        if out.capacity is not None and out._values.size > 2 * out.capacity:
            out._compact()
        return out

    def edges(self, n_bins: int) -> np.ndarray:
        """Interior equal-frequency edges of the accumulated column.

        Weighted-rank analogue of :func:`equal_frequency_edges`: the edge
        for quantile ``q`` is the summary value covering weighted rank
        ``floor(q * (W - 1))`` — exactly ``np.quantile(..., "lower")``
        when every weight is 1 (the unbounded sketch).
        """
        if n_bins < 1:
            raise ConfigurationError("n_bins must be >= 1")
        if self.n_finite == 0:
            return np.empty(0)
        values, weights = self._summary()
        qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        total = int(weights.sum())
        targets = np.floor(qs * (total - 1)).astype(np.int64)
        cumulative = np.cumsum(weights)
        idx = np.searchsorted(cumulative, targets, side="right")
        edges = np.unique(values[idx])
        return edges[edges < self.max]

    # ------------------------------------------------------------------
    def _summary(self) -> "tuple[np.ndarray, np.ndarray]":
        """Sorted (values, weights) including any unfolded buffer rows."""
        if self._buffer:
            fresh = _stable_sorted(np.concatenate(self._buffer))
            ones = np.ones(fresh.size, dtype=np.int64)
            if self._values.size:
                self._values, self._weights = _merge_sorted(
                    self._values, self._weights, fresh, ones
                )
            else:
                self._values, self._weights = fresh, ones
            self._buffer = []
            self._buffer_rows = 0
        return self._values, self._weights

    def _compact(self) -> None:
        """Pairwise-collapse the sorted summary down to ``capacity`` entries.

        Adjacent pairs merge into one entry carrying both weights; the
        survivor's value alternates between the pair's lower and upper
        member (deterministic parity toggle) so the collapse does not
        drift the summary systematically low or high. Each collapse
        perturbs any weighted rank by at most the dropped entry's weight.
        """
        values, weights = self._summary()
        while values.size > self.capacity:
            keep = np.arange(min(self._parity, values.size - 1), values.size, 2)
            # Each kept entry absorbs the weight of every dropped entry
            # since the previous kept one (total weight is preserved).
            cum = np.cumsum(weights)
            upper = cum[keep]
            absorbed = np.diff(np.concatenate([np.zeros(1, dtype=np.int64), upper]))
            tail = int(cum[-1] - upper[-1])
            if tail:
                absorbed[-1] += tail
            values = values[keep]
            weights = absorbed
            self._parity ^= 1
        self._values = values
        self._weights = weights


def _stable_sorted(values: np.ndarray) -> np.ndarray:
    """``values`` in the order a stable sort gives, via the default sort.

    The default (SIMD) sort is unstable, but among finite float64 values
    only ``-0.0`` and ``+0.0`` compare equal while differing in bits, so
    putting the run of zeros back in arrival order makes it stable.
    """
    out = np.sort(values)
    lo = np.searchsorted(out, 0.0, side="left")
    hi = np.searchsorted(out, 0.0, side="right")
    if hi - lo > 1:
        out[lo:hi] = values[values == 0.0]  # repro: ignore[float-eq] selects stored zeros of either sign, not a computed result
    return out


def _merge_sorted(
    a_values: np.ndarray,
    a_weights: np.ndarray,
    b_values: np.ndarray,
    b_weights: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Stably merge two sorted summaries: on ties ``a``'s entries come
    first. The stable argsort (timsort) of two sorted runs is a single
    linear merge of them."""
    values = np.concatenate([a_values, b_values])
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate([a_weights, b_weights])[order]


def merge_quantile_sketches(a: QuantileSketch, b: QuantileSketch) -> QuantileSketch:
    """Associative merge of two :class:`QuantileSketch` partials."""
    return a.merge(b)


def streamed_quantile_edges(
    chunk_iter,
    n_cols: int,
    n_bins: "int | tuple[int, ...]",
    *,
    sketch: str = "merge",
    capacity: int = DEFAULT_SKETCH_CAPACITY,
    exact_batch_cols: int = 4,
) -> "tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]":
    """Per-column equal-frequency edges from a restartable chunk stream.

    ``chunk_iter`` is a zero-argument callable returning a fresh iterator
    of ``(rows, X_chunk, y_chunk)`` triples (``ChunkedDataset.iter_chunks``
    fits directly). ``sketch="merge"`` runs one pass with a bounded
    :class:`QuantileSketch` per column (O(n_cols * capacity) memory,
    edges within sketch rank error of the exact ones). ``sketch="exact"``
    uses unbounded sketches — bit-identical to
    :func:`equal_frequency_edges` on the materialized column — processed
    ``exact_batch_cols`` columns per pass so resident memory stays
    O(exact_batch_cols * n_rows), never O(n_cols * n_rows).

    Returns ``(edges_per_col, n_finite, col_min, col_max)``; the side
    statistics are exact in both modes (they never pass through
    compaction), so scorability guards match the in-memory path's. A
    tuple ``n_bins`` asks the same sketches for several bin counts at
    once; ``edges_per_col`` is then a tuple holding one per-column list
    per count, in order.
    """
    if sketch not in ("merge", "exact"):
        raise ConfigurationError(f"unknown sketch mode {sketch!r}")
    bin_counts = n_bins if isinstance(n_bins, tuple) else (n_bins,)
    edge_lists: "list[list[np.ndarray]]" = [
        [np.zeros(0)] * n_cols for _ in bin_counts
    ]
    edges_per_col = tuple(edge_lists) if isinstance(n_bins, tuple) else edge_lists[0]
    n_finite = np.zeros(n_cols, dtype=np.int64)
    col_min = np.full(n_cols, np.inf)
    col_max = np.full(n_cols, -np.inf)

    def finish(j: int, sk: QuantileSketch) -> None:
        for edges, count in zip(edge_lists, bin_counts):
            edges[j] = sk.edges(count)
        n_finite[j] = sk.n_finite
        col_min[j] = sk.min
        col_max[j] = sk.max

    if sketch == "exact":
        if exact_batch_cols < 1:
            raise ConfigurationError("exact_batch_cols must be >= 1")
        batch_cols, sketch_capacity = exact_batch_cols, None
    else:
        batch_cols, sketch_capacity = max(n_cols, 1), capacity
    for start in range(0, n_cols, batch_cols):
        cols = range(start, min(start + batch_cols, n_cols))
        sketches = [QuantileSketch(capacity=sketch_capacity) for _ in cols]
        for _rows, X_chunk, _y in chunk_iter():
            for j, sk in zip(cols, sketches):
                sk.update(X_chunk[:, j])
        for j, sk in zip(cols, sketches):
            finish(j, sk)
    return edges_per_col, n_finite, col_min, col_max


@batched_kernel(oracle="equal_frequency_edges")
@chunk_mergeable(merge=merge_quantile_sketches, exact=True)
def quantile_sketch_partial(
    chunk: np.ndarray, capacity: "int | None" = None
) -> QuantileSketch:
    """Per-chunk partial for streaming equal-frequency edges.

    With the default ``capacity=None`` the sketch is unbounded and the
    merge contract is exact: ``merge(partial(A), partial(B))`` answers
    every quantile query bit-identically to ``partial(A ∥ B)``, and both
    match :func:`equal_frequency_edges` on the concatenated rows. Pass a
    finite capacity for the bounded-memory approximation (rank-error
    bounds are tested in ``tests/test_stream_merge.py``).
    """
    return QuantileSketch(capacity=capacity).update(chunk)


@kernel_oracle
def codes_from_edges(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to integer bin codes given interior ``edges``.

    Finite values get codes ``0..len(edges)`` (``searchsorted`` semantics:
    a value equal to an edge goes to the bin below it); non-finite values
    (NaN and ±inf) get the dedicated missing code ``len(edges) + 1``.
    """
    n_edges = edges.size
    codes = np.searchsorted(edges, x, side="left").astype(np.int64)
    missing = ~np.isfinite(x)
    codes[missing] = n_edges + 1
    return codes


@batched_kernel(oracle="codes_from_edges")
def bin_codes(x: np.ndarray, edges: np.ndarray, *, missing: bool = False) -> np.ndarray:
    """``np.searchsorted(edges, x, side="left")`` by counting comparisons.

    Computes ``len(edges) - #{e : x <= e}`` with one vectorized
    comparison per edge, accumulated into the narrowest unsigned counter
    that also holds ``len(edges) + 1`` (uint8 up to 254 edges, uint16
    past that), which is the returned dtype. The result equals the
    binary search for every float64 — ±inf, ±0.0 and NaN, which sorts
    last and so gets ``len(edges)`` — provided ``edges`` is sorted and
    NaN-free. With ``missing=True`` non-finite values get the dedicated
    code ``len(edges) + 1`` instead, which is :func:`codes_from_edges`.

    Cost is O(len(x) × len(edges)) — no fallback switches to the binary
    search for long edge lists, because no fit site exceeds 64 edges. Pass
    a contiguous ``x``: every comparison pass re-reads it, so a strided
    view slows every pass.
    """
    counts = np.zeros(x.size, dtype=np.min_scalar_type(edges.size + 1))
    hit = np.empty(x.size, dtype=np.bool_)
    hit_as_count = hit.view(np.uint8)
    for edge in edges:
        np.less_equal(x, edge, out=hit)
        counts += hit_as_count
    np.subtract(edges.size, counts, out=counts)
    if missing:
        np.isfinite(x, out=hit)
        if not hit.all():
            counts[~hit] = edges.size + 1
    return counts


def sorted_finite(x: np.ndarray) -> np.ndarray:
    """The finite values of column ``x`` in ascending order.

    One ``np.sort`` of the column (which puts -inf first, then +inf and
    NaN last), sliced to its finite run.
    """
    ordered = np.sort(x)
    lo = np.searchsorted(ordered, -np.inf, side="right")
    hi = np.searchsorted(ordered, np.inf, side="left")
    return ordered[lo:hi]


@batched_kernel(oracle="equal_frequency_edges")
def edges_from_sorted(ordered: np.ndarray, n_bins: int) -> np.ndarray:
    """:func:`equal_frequency_edges` from a column's sorted finite values.

    ``method="lower"`` quantiles are floor-indexed picks from the sorted
    values — edge ``q`` is ``ordered[floor(q * (n - 1))]``, numpy's own
    rule — so one sort (:func:`sorted_finite`) replaces ``np.quantile``'s
    multi-kth partition. The edges equal the oracle's value for value; a
    zero edge's sign may differ (the oracle partitions instead of
    sorting), which no comparison can see since ``-0.0 == +0.0``.
    """
    if n_bins < 1:
        raise ConfigurationError("n_bins must be >= 1")
    if ordered.size == 0:
        return np.empty(0)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(ordered[np.floor(qs * (ordered.size - 1)).astype(np.int64)])
    # An edge at the maximum would create a permanently-empty top bin.
    return edges[edges < ordered[-1]]


@dataclass
class Binner:
    """Fitted-edges binner with a pluggable strategy.

    Parameters
    ----------
    n_bins:
        Requested number of bins (effective count may be lower when the
        column has few distinct values).
    strategy:
        ``"quantile"`` (equal-frequency, the paper's default for IV) or
        ``"uniform"`` (equidistant).
    """

    n_bins: int = 10
    strategy: str = "quantile"
    edges_: "np.ndarray | None" = field(default=None, repr=False)

    def fit(self, x: "np.ndarray | list") -> "Binner":
        arr = _check_column(x)
        if self.strategy == "quantile":
            self.edges_ = equal_frequency_edges(arr, self.n_bins)
        elif self.strategy == "uniform":
            self.edges_ = equal_width_edges(arr, self.n_bins)
        else:
            raise ConfigurationError(f"unknown binning strategy {self.strategy!r}")
        return self

    def transform(self, x: "np.ndarray | list") -> np.ndarray:
        if self.edges_ is None:
            raise NotFittedError("Binner.transform called before fit")
        return codes_from_edges(_check_column(x), self.edges_)

    def fit_transform(self, x: "np.ndarray | list") -> np.ndarray:
        return self.fit(x).transform(x)

    @property
    def n_effective_bins(self) -> int:
        """Number of non-missing codes the fitted binner can emit."""
        if self.edges_ is None:
            raise NotFittedError("Binner not fitted")
        return int(self.edges_.size) + 1


def chimerge_edges(
    x: np.ndarray,
    y: np.ndarray,
    max_bins: int = 10,
    initial_bins: int = 50,
) -> np.ndarray:
    """ChiMerge supervised discretization (Kerber, 1992), simplified.

    Start from ``initial_bins`` equal-frequency bins and repeatedly merge
    the adjacent pair with the smallest chi-square statistic w.r.t. the
    binary label until ``max_bins`` remain. Returns interior edges.
    """
    x = _check_column(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != x.size:
        raise DataError("x and y length mismatch in chimerge_edges")
    edges = equal_frequency_edges(x, initial_bins)
    if edges.size == 0:
        return edges
    codes = codes_from_edges(x, edges)
    n_codes = edges.size + 1
    # Contingency counts per bin (ignore the missing code).
    valid = codes <= edges.size
    pos = np.bincount(codes[valid & (y == 1)], minlength=n_codes).astype(np.float64)
    neg = np.bincount(codes[valid & (y == 0)], minlength=n_codes).astype(np.float64)
    counts = [np.array([p, q]) for p, q in zip(pos, neg)]
    cut_points = list(edges)

    def chi2(a: np.ndarray, b: np.ndarray) -> float:
        total = a + b
        grand = total.sum()
        if grand == 0:
            return 0.0
        col_sums = np.array([a.sum(), b.sum()])
        stat = 0.0
        for col, obs in ((0, a), (1, b)):
            expected = total * (col_sums[col] / grand)
            nz = expected > 0
            stat += float((((obs - expected) ** 2)[nz] / expected[nz]).sum())
        return stat

    while len(counts) > max_bins and cut_points:
        stats = [chi2(counts[i], counts[i + 1]) for i in range(len(counts) - 1)]
        k = int(np.argmin(stats))
        counts[k] = counts[k] + counts[k + 1]
        del counts[k + 1]
        del cut_points[k]
    return np.asarray(cut_points, dtype=np.float64)


def codes_from_edges_matrix(X: np.ndarray, edges_per_column: "list[np.ndarray]") -> np.ndarray:
    """Bin every column of ``X`` against already-fitted interior edges.

    The matrix counterpart of :func:`codes_from_edges`: column ``j`` is
    coded against ``edges_per_column[j]``, with non-finite values mapped to
    the column's dedicated missing code ``len(edges_per_column[j]) + 1``,
    by :func:`bin_codes` over a contiguous copy of each column.
    Returns a Fortran-ordered int64 matrix so that the per-column gathers
    of histogram tree growth and binned descent stay contiguous. This is
    how a fitted tree ensemble bins a *new* matrix (e.g. the early-stopping
    eval set) exactly once instead of re-descending raw floats per round.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("codes_from_edges_matrix expects a 2-D matrix")
    if X.shape[1] != len(edges_per_column):
        raise DataError(
            f"X has {X.shape[1]} columns but {len(edges_per_column)} edge sets"
        )
    codes = np.empty(X.shape, dtype=np.int64, order="F")
    for j, edges in enumerate(edges_per_column):
        col = np.ascontiguousarray(X[:, j])
        codes[:, j] = bin_codes(col, edges, missing=True)
    return codes


def quantile_codes_matrix(X: np.ndarray, max_bins: int = 64) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bin every column of a matrix for histogram-based tree learning.

    Returns ``(codes, edges_per_column)`` where ``codes`` is a
    Fortran-ordered int matrix of the same shape as ``X`` (missing values
    mapped to the last code of each column) and ``edges_per_column[j]``
    holds the interior edges used for column ``j`` — the
    :func:`equal_frequency_edges` edges, picked from one sort per column
    by :func:`edges_from_sorted`. Transforming another matrix with the
    same fitted edges is :func:`codes_from_edges_matrix`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("quantile_codes_matrix expects a 2-D matrix")
    codes = np.empty(X.shape, dtype=np.int64, order="F")
    edges_per_column = []
    for j in range(X.shape[1]):
        # One contiguous copy per column serves both the sort and the codes.
        col = np.ascontiguousarray(X[:, j])
        edges = edges_from_sorted(sorted_finite(col), max_bins)
        codes[:, j] = bin_codes(col, edges, missing=True)
        edges_per_column.append(edges)
    return codes, edges_per_column
