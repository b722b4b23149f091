"""Batched (matrix-shaped) scoring kernels for the two selection hot paths.

The scalar implementations in :mod:`.information` are the *reference*
semantics: one combination or one column at a time, easy to audit against
the paper. The kernels here produce numerically identical results (same
binning, same epsilon smoothing, same occupied-bin masking) but are shaped
so NumPy does all the per-row and per-cell work:

* :func:`gain_ratio_from_cells` — the Algorithm 2 criterion for one
  partition, with **one** integer ``bincount`` yielding both the cell
  counts and the per-cell positive counts (labels are interleaved into
  the cell code), and conditional entropy + split information computed
  from that single pass. When the cell radix is unknown or too large a
  single ``np.unique`` pass replaces the dense histogram.
* :func:`information_values_matrix` — Algorithm 3 over *all* candidate
  columns, one column at a time: one sort per column yields its
  scorability guard and its equal-frequency edges (the fit-time binning
  kernels of :mod:`repro.tabular.binning` replace the per-column
  quantile ``Binner`` refits), and one ``bincount`` per column of its bin
  code plus the label as a high digit produces that column's
  (class, bin) counts. Working column by column keeps the kernel's
  scratch memory O(rows) instead of several full-matrix temporaries.
"""

from __future__ import annotations

import numpy as np

from ..analysis.registry import batched_kernel, chunk_mergeable, kernel_exempt
from ..exceptions import DataError
from ..tabular.binning import bin_codes, edges_from_sorted, sorted_finite
from .information import _EPS, _xlogx, entropy

#: Dense-histogram threshold: past this many cells per row, fall back to a
#: ``np.unique`` pass instead of allocating the full histogram.
_DENSE_CELL_FACTOR = 4
_DENSE_CELL_FLOOR = 1 << 16


@batched_kernel(oracle="information_gain_ratio")
def gain_ratio_from_cells(
    y: np.ndarray,
    cells: np.ndarray,
    n_cells: "int | None" = None,
    base_entropy: "float | None" = None,
) -> float:
    """Information gain ratio of the partition ``cells``, fully vectorized.

    Matches :func:`.information.information_gain_ratio` to float precision.

    Parameters
    ----------
    n_cells:
        Upper bound on cell ids (the mixed-radix product) when known; a
        small bound enables the dense one-``bincount`` path. ``None``
        falls back to a single ``np.unique`` pass.
    base_entropy:
        Precomputed ``entropy(y)`` so batch callers pay for it once.
    """
    y = np.asarray(y).ravel()
    cells = np.asarray(cells).ravel()
    if y.size != cells.size:
        raise DataError("y and cells must have equal length")
    if y.size == 0:
        return 0.0
    n = y.size
    y01 = (y == 1).astype(np.int64)
    if base_entropy is None:
        base_entropy = entropy(y)
    if n_cells is not None and 0 < n_cells <= max(_DENSE_CELL_FACTOR * n, _DENSE_CELL_FLOOR):
        # Interleave the binary label into the cell code: one integer
        # bincount then yields (negatives, positives) per cell.
        return gain_ratio_from_labeled_cells(
            cells.astype(np.int64) * 2 + y01, 2 * int(n_cells), n, base_entropy
        )
    _, inverse, totals = np.unique(cells, return_inverse=True, return_counts=True)
    return gain_ratio_from_labeled_cells(
        inverse.astype(np.int64) * 2 + y01, 2 * totals.size, n, base_entropy
    )


@kernel_exempt("associative merge helper for integer count partials, not a kernel")
def merge_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two integer count partials: elementwise sum.

    Integer addition is associative and commutative, so partials built
    over any chunking (or sharding) of the rows merge to the exact
    single-pass counts — the streamed statistics are bit-identical.
    """
    return a + b


@batched_kernel(oracle="information_gain_ratio")
@chunk_mergeable(merge=merge_counts, exact=True)
def labeled_cell_counts(labeled: np.ndarray, n_codes: int) -> np.ndarray:
    """Per-cell ``(negatives, positives)`` counts — the gain-ratio partial.

    ``labeled[i] == 2 * cell[i] + (y[i] == 1)``; one integer ``bincount``
    yields the interleaved class counts of every cell, reshaped to
    ``(n_cells, 2)``. This is the sufficient statistic of the Algorithm 2
    criterion: partials over row chunks merge by :func:`merge_counts`
    (bit-identically) and :func:`gain_ratio_from_counts` finalizes.
    """
    return np.bincount(labeled, minlength=n_codes).reshape(-1, 2)


@batched_kernel(oracle="information_gain_ratio")
def gain_ratio_from_counts(
    both: np.ndarray,
    n_rows: int,
    base_entropy: float,
) -> float:
    """Finalize a gain ratio from merged ``(n_cells, 2)`` class counts.

    The pure-arithmetic half of :func:`gain_ratio_from_labeled_cells`:
    conditional entropy and split information both fall out of the one
    count table, so the streamed result is bit-identical to the
    in-memory kernel whenever the counts are (integer merges are exact).
    """
    totals = both.sum(axis=1)
    occupied = totals > 0
    totals = totals[occupied]
    pos = both[occupied, 1]
    w = totals / n_rows  # repro: ignore[div-guard] n_rows >= 1 whenever any cell is occupied
    split_info = float(-(w * np.log(np.maximum(w, _EPS))).sum())
    if split_info <= _EPS:
        return 0.0
    p1 = pos / totals
    conditional = float((w * -(_xlogx(p1) + _xlogx(1.0 - p1))).sum())
    gain = max(0.0, base_entropy - conditional)
    return float(gain / split_info)


@batched_kernel(oracle="information_gain_ratio")
def gain_ratio_from_labeled_cells(
    labeled: np.ndarray,
    n_codes: int,
    n_rows: int,
    base_entropy: float,
) -> float:
    """Gain ratio when the label is folded in as the lowest radix digit.

    ``labeled[i] == 2 * cell[i] + (y[i] == 1)`` — one ``bincount`` then
    produces the interleaved (negative, positive) counts of every cell,
    and both conditional entropy and split information fall out of the
    same pass. This is the innermost kernel of the batched ranking
    engine; callers compose the labeled codes directly (the label is just
    another mixed-radix digit) so no separate ``2 * cells + y`` pass is
    paid per combination. Internally it is the one-chunk composition of
    :func:`labeled_cell_counts` and :func:`gain_ratio_from_counts` —
    streaming callers run the same two halves over many chunks.
    """
    return gain_ratio_from_counts(
        labeled_cell_counts(labeled, n_codes), n_rows, base_entropy
    )


@batched_kernel(oracle="information_value")
def information_values_matrix(
    X: np.ndarray,
    y: np.ndarray,
    n_bins: int = 10,
) -> np.ndarray:
    """Per-column information values (Eq. 6) of a whole candidate matrix.

    Semantics match the guarded scalar path (``information_value`` behind
    the constant/non-finite guard of the selection stage): columns with no
    finite values or a constant finite part score 0.0; everything else
    gets the equal-frequency-bin IV with epsilon-smoothed WoE over
    occupied bins, missing values in their own bin.

    Each column is sorted once (:func:`~repro.tabular.binning.sorted_finite`):
    its finite run gives the scorability guard and, by
    :func:`~repro.tabular.binning.edges_from_sorted`, the same edges the
    scalar ``Binner`` fits. :func:`iv_bin_counts` then counts every
    column's (class, bin) cells, also one column at a time.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("information_values_matrix expects a matrix")
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.size:
        raise DataError("X and y must have equal length")
    n_rows, n_cols = X.shape
    if n_cols == 0:
        return np.zeros(0)
    if n_rows == 0:
        raise DataError("empty input to information_values")
    pos_mask = y == 1
    n_pos = int(pos_mask.sum())
    n_neg = n_rows - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("information_value requires both classes present")

    scorable = np.zeros(n_cols, dtype=bool)
    edges_per_col: list[np.ndarray] = [np.empty(0)] * n_cols
    for j in range(n_cols):
        ordered = sorted_finite(X[:, j])
        if ordered.size and ordered[0] < ordered[-1]:
            scorable[j] = True
            edges_per_col[j] = edges_from_sorted(ordered, n_bins)

    stride = max(edges.size for edges in edges_per_col) + 2
    counts = iv_bin_counts(X.T, pos_mask, edges_per_col, scorable, stride)
    return iv_from_counts(counts[0], counts[1], n_pos, n_neg, scorable)


@batched_kernel(oracle="information_value")
@chunk_mergeable(merge=merge_counts, exact=True)
def iv_bin_counts(
    XT: np.ndarray,
    pos_mask: np.ndarray,
    edges_per_col: "list[np.ndarray]",
    scorable: np.ndarray,
    stride: int,
) -> np.ndarray:
    """Per-(class, column, bin) counts for a row chunk — the IV partial.

    One column at a time: :func:`~repro.tabular.binning.bin_codes` codes
    a contiguous copy of the column (bin ``edges.size + 1`` holds its
    non-finite rows, their own WoE bin), the class label rides as a high
    digit (``code + stride * label``), and one ``bincount`` of that key
    fills the column's ``(2, stride)`` slice of the counts. An unscorable
    column puts every row in bin 0 of the negatives. Scratch memory is
    O(chunk_rows), never O(n_cols × chunk_rows).

    ``XT`` is the ``(n_cols, chunk_rows)`` transpose of the chunk (rows
    that are contiguous, as ``X.T`` of a Fortran-ordered ``X`` is, are
    read in place) and ``pos_mask`` its positive-label mask;
    ``edges_per_col``/``scorable``/``stride`` must be identical across
    chunks (edges come from one up-front pass — a sort per column
    in-memory, the quantile sketch when streaming). Returns
    ``(2, n_cols, stride)`` int64 counts (``[0]`` negatives, ``[1]``
    positives) that merge across chunks by :func:`merge_counts`,
    bit-identically.
    """
    n_cols, n_rows = XT.shape
    counts = np.zeros((2, n_cols, stride), dtype=np.int64)
    label_digit = pos_mask.astype(np.int64) * stride
    key = np.empty(n_rows, dtype=np.int64)
    for j in range(n_cols):
        if not scorable[j]:
            counts[0, j, 0] = n_rows
            continue
        col = np.ascontiguousarray(XT[j])
        np.add(bin_codes(col, edges_per_col[j], missing=True), label_digit, out=key)
        counts[:, j] = np.bincount(key, minlength=2 * stride).reshape(2, stride)
    return counts


@batched_kernel(oracle="information_value")
def iv_from_counts(
    neg_counts: np.ndarray,
    pos_counts: np.ndarray,
    n_pos: int,
    n_neg: int,
    scorable: np.ndarray,
) -> np.ndarray:
    """Finalize per-column IVs from merged ``(n_cols, stride)`` bin counts.

    The pure-arithmetic half of :func:`information_values_matrix`:
    epsilon-smoothed WoE over occupied bins, unscorable columns zeroed.
    Given exact counts (integer merges are), the streamed IVs are
    bit-identical to the in-memory kernel's.
    """
    neg_counts = np.asarray(neg_counts, dtype=np.float64)
    pos_counts = np.asarray(pos_counts, dtype=np.float64)
    total_counts = neg_counts + pos_counts

    p = np.maximum(pos_counts / n_pos, _EPS)  # repro: ignore[div-guard] callers validate n_pos > 0 (both classes present)
    q = np.maximum(neg_counts / n_neg, _EPS)  # repro: ignore[div-guard] callers validate n_neg > 0 (both classes present)
    occupied = total_counts > 0
    contributions = np.where(occupied, (p - q) * np.log(p / q), 0.0)
    ivs = contributions.sum(axis=1)
    ivs[~scorable] = 0.0
    return ivs
