"""Blocked incremental Gram-based redundancy removal (Algorithm 4).

The full-matrix formulation of the greedy de-correlation stage builds the
complete k x k Pearson matrix up front — O(k^2 * n) flops and O(k^2)
memory — even though the IV-ordered scan only ever consults correlations
between each candidate and the (typically much smaller) kept set. The
kernel here computes exactly those correlations and nothing else:

1. candidates are visited in decreasing-IV order (ties by column index),
   ``block_size`` at a time;
2. each block's columns are gathered and **standardized once** (centered,
   unit-normalized, with :func:`repro.metrics.pearson_matrix`'s
   constant/noise-floor semantics, see :func:`standardize_columns`);
3. one BLAS matmul per (block, kept-chunk) pair yields every
   candidate-vs-kept correlation — ``|corr(a, b)| = |z_a . z_b|`` for
   standardized columns — reduced immediately to a per-candidate running
   max so working memory stays O(block^2), never O(k * kept);
4. within the block, each candidate is additionally checked against the
   block's earlier survivors with one GEMV;
5. survivors' standardized columns are appended to a growing
   Fortran-ordered kept panel (amortized doubling), so later blocks see
   them through step 3.

Total cost is O(k * |kept| * n) time and O((block + |kept|) * n) memory,
and the kept indices are **identical** to the full-matrix greedy: the
same noise-floor constant rejection, the same NaN propagation (a
non-finite column yields NaN correlations, which fail the
``max <= theta`` check), the same clip of raw products to [-1, 1] before
the threshold comparison, and the same IV tie-break by column order.
(The one caveat: both paths round each correlation through different but
equally-valid BLAS summation orders, so a ``theta`` lying within ~1 ulp
of an *achieved* |correlation| can resolve the ``<= theta`` comparison
either way on either path. Exact values — 0.0 for constants, clipped
1.0 for duplicates — are unaffected, and any configured threshold sits
far from the data's correlations in practice.)

One ordering detail matters for exactness: the full-matrix path zeroes a
constant column's correlation row/column *after* the Gram product, so a
constant column correlates 0.0 with **everything** — including columns
whose correlations are otherwise NaN. Standardized constant columns are
zero vectors, which reproduces the 0.0 against finite partners for free,
but ``0 * NaN = NaN``; the explicit constant masks threaded through
:func:`max_abs_correlation` restore the exact full-matrix value in that
corner too.
"""

from __future__ import annotations

import numpy as np

from ..analysis.registry import (
    batched_kernel,
    chunk_mergeable,
    inplace_mutator,
    kernel_exempt,
)
from ..exceptions import DataError

#: Candidates standardized and checked per BLAS block. 512 columns keep
#: the per-block Gram slabs around a couple of MB for typical row counts
#: while the matmuls stay firmly in the BLAS-efficient regime.
DEFAULT_BLOCK_SIZE = 512


@batched_kernel(oracle="pearson_matrix")
@inplace_mutator
def standardize_columns(
    B: np.ndarray, out: "np.ndarray | None" = None
) -> "tuple[np.ndarray, np.ndarray]":
    """Center and unit-normalize columns, constant-safe like ``pearson_matrix``.

    The dot product of two standardized columns is their Pearson
    correlation. A column whose centered norm is at the float-cancellation
    noise floor (its spread is pure rounding noise relative to its
    magnitude) maps to the zero vector; non-finite columns propagate NaN.
    Returns ``(Z, constant)`` — the standardized block and the boolean
    noise-floor mask (needed by the caller to reproduce the full-matrix
    path's post-product row/column zeroing exactly).

    ``out`` receives the standardized block in place; it may alias ``B``
    itself (the caller's gather buffer), which keeps the hot loop free of
    per-block allocations.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise DataError("standardize_columns expects a matrix")
    mean = B.mean(axis=0)
    # max(col_max, -col_min) == abs(col).max without materializing abs;
    # NaN propagates through either form identically.
    scale = np.maximum(B.max(axis=0), -B.min(axis=0))
    noise_floor = (
        np.sqrt(B.shape[0]) * np.finfo(np.float64).eps * (scale + 1.0) * 16
    )
    centered = np.subtract(B, mean, out=out)
    # One read pass, no (n, block) squared temp. (einsum accumulates in
    # plain order rather than pairwise, so norms can differ from the
    # full-matrix path's in the last ulp — far inside the noise floor's
    # 16x slack, and of the same order as the BLAS-vs-BLAS rounding the
    # correlation products already carry.)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    constant = norms <= noise_floor
    safe = norms.copy()
    safe[constant] = 1.0
    centered /= safe
    centered[:, constant] = 0.0
    return centered, constant


@batched_kernel(oracle="pearson_matrix")
def max_abs_correlation(
    Z: np.ndarray,
    panel: np.ndarray,
    cand_constant: "np.ndarray | None" = None,
    kept_constant: "np.ndarray | None" = None,
    chunk: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Per-candidate ``max_j |corr(candidate, kept_j)|`` via chunked GEMMs.

    ``Z`` holds standardized candidate columns, ``panel`` standardized
    kept columns; products and reduction mirror the full-matrix decision
    values (constant rows/columns forced to 0.0, clip to [-1, 1], then
    abs). The kept dimension is processed ``chunk`` columns at a time and
    reduced immediately, so the working set is O(Z.shape[1] * chunk)
    regardless of how large the kept panel grows. NaN propagates through
    ``np.max``/``np.maximum``, so a non-finite column on either side
    yields NaN (reject) unless the partner is constant.
    """
    out = np.full(Z.shape[1], -np.inf)
    for start in range(0, panel.shape[1], chunk):
        C = Z.T @ panel[:, start : start + chunk]
        if kept_constant is not None:
            C[:, kept_constant[start : start + chunk]] = 0.0
        if cand_constant is not None:
            C[cand_constant, :] = 0.0
        np.clip(C, -1.0, 1.0, out=C)
        np.abs(C, out=C)
        np.maximum(out, C.max(axis=1), out=out)
    return out


@kernel_exempt("associative merge helper for moment partials, not a kernel")
def merge_column_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two :func:`column_moments_partial` results.

    Counts and sums add; max/min combine by elementwise max/min (whose
    NaN propagation matches a single-pass reduction). The float sum
    re-associates, so merged means match in-memory ones to ≤1e-9
    relative, not bit-for-bit.
    """
    out = np.empty_like(a)
    out[0] = a[0] + b[0]
    out[1] = a[1] + b[1]
    out[2] = np.maximum(a[2], b[2])
    out[3] = np.minimum(a[3], b[3])
    return out


@batched_kernel(oracle="pearson_matrix")
@chunk_mergeable(merge=merge_column_moments, exact=False)
def column_moments_partial(F_chunk: np.ndarray) -> np.ndarray:
    """Per-column ``(count, sum, max, min)`` of one row chunk: ``(4, k)``.

    First streaming pass of the redundancy stage: merged moments yield
    each column's mean (``sum / count``) and the constant-detection scale
    (``max(col_max, -col_min)``, i.e. ``abs(col).max`` — NaN propagating,
    exactly as :func:`standardize_columns` computes it). Zero-row chunks
    contribute the reduction identities (0 count/sum, -inf max, +inf min).
    """
    F_chunk = np.asarray(F_chunk, dtype=np.float64)
    if F_chunk.ndim != 2:
        raise DataError("column_moments_partial expects a matrix")
    k = F_chunk.shape[1]
    out = np.empty((4, k))
    out[0] = F_chunk.shape[0]
    if F_chunk.shape[0] == 0:
        out[1] = 0.0
        out[2] = -np.inf
        out[3] = np.inf
        return out
    out[1] = F_chunk.sum(axis=0)
    out[2] = F_chunk.max(axis=0)
    out[3] = F_chunk.min(axis=0)
    return out


@kernel_exempt("associative merge helper for Gram partials, not a kernel")
def merge_grams(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two :func:`centered_gram_partial` results: elementwise sum.

    Float sums re-associate, so merged Gram panels match single-pass ones
    to ≤1e-9 relative.
    """
    return a + b


@batched_kernel(oracle="pearson_matrix")
@chunk_mergeable(merge=merge_grams, exact=False)
def centered_gram_partial(F_chunk: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Centered Gram panel of one row chunk: ``(B - mean).T @ (B - mean)``.

    Second streaming pass of the redundancy stage, centered around the
    global per-column means from the merged moments. Merged panels feed
    :func:`correlations_from_gram`.
    """
    F_chunk = np.asarray(F_chunk, dtype=np.float64)
    if F_chunk.ndim != 2:
        raise DataError("centered_gram_partial expects a matrix")
    centered = F_chunk - np.asarray(mean, dtype=np.float64)
    return centered.T @ centered


@batched_kernel(oracle="pearson_matrix")
def correlations_from_gram(
    gram: np.ndarray,
    scale: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Finalize a pairwise |column| correlation matrix from a merged Gram.

    Reproduces :func:`repro.metrics.information.pearson_matrix`'s
    semantics from sufficient statistics: norms come off the Gram
    diagonal, the constant/noise-floor rejection uses the streamed
    ``abs(col).max`` scale, constant rows/columns are zeroed *after* the
    product (so a constant column correlates 0.0 with everything,
    including NaN partners), the diagonal is forced to 1, and values clip
    to [-1, 1]. Float sums re-associate, so entries match the in-memory
    matrix to ≤1e-9 relative.
    """
    gram = np.asarray(gram, dtype=np.float64)
    norms = np.sqrt(np.maximum(np.diag(gram), 0.0))
    noise_floor = (
        np.sqrt(n_rows) * np.finfo(np.float64).eps * (np.asarray(scale) + 1.0) * 16
    )
    constant = norms <= noise_floor
    safe = norms.copy()
    safe[constant] = 1.0
    corr = gram / np.outer(safe, safe)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


@kernel_exempt("greedy scan over a finalized correlation matrix, not a kernel")
def greedy_decorrelate(corr: np.ndarray, ivs: np.ndarray, theta: float) -> np.ndarray:
    """Algorithm 4 greedy scan over a full correlation matrix.

    Candidates are visited in decreasing-IV order (ties by index); each
    is kept iff its |corr| with every already-kept candidate is at most
    ``theta``. NaN correlations fail the comparison (reject), matching
    the blocked and full-matrix paths. Returns sorted kept indices into
    ``corr``'s columns.
    """
    ivs = np.asarray(ivs, dtype=np.float64).ravel()
    order = np.lexsort((np.arange(ivs.size), -ivs))
    kept: list[int] = []
    for i in order:
        if kept:
            vals = np.abs(corr[i, kept])
            with np.errstate(invalid="ignore"):
                if not np.all(vals <= theta):
                    continue
        kept.append(int(i))
    return np.sort(np.asarray(kept, dtype=np.int64))


def _grown_panel(
    panel: np.ndarray, constant: np.ndarray, total: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Double the kept panel's capacity (bounded by ``total`` columns)."""
    capacity = min(total, max(2 * panel.shape[1], 1))
    bigger = np.empty((panel.shape[0], capacity), order="F")
    bigger[:, : panel.shape[1]] = panel
    bigger_constant = np.zeros(capacity, dtype=bool)
    bigger_constant[: constant.size] = constant
    return bigger, bigger_constant


@batched_kernel(oracle="pearson_matrix")
def remove_redundant_features_blocked(
    X: np.ndarray,
    ivs: np.ndarray,
    theta: float,
    columns: "np.ndarray | None" = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Algorithm 4 greedy de-correlation without the k x k matrix.

    Parameters
    ----------
    X:
        The (n, m) data matrix. Candidate columns are gathered from it one
        block at a time, so callers never need to fancy-index a candidate
        submatrix up front.
    ivs:
        Information value of each candidate, aligned with ``columns``
        (or with ``X``'s columns when ``columns`` is ``None``).
    theta:
        Absolute-Pearson threshold; a candidate is kept iff its |corr|
        with every already-kept candidate is at most ``theta``.
    columns:
        Optional candidate column indices into ``X``. ``None`` means every
        column is a candidate.
    block_size:
        Candidates standardized and checked per BLAS block.

    Returns
    -------
    Sorted kept column indices into ``X`` (a subset of ``columns``),
    identical to the full-matrix greedy's output.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("remove_redundant_features expects a matrix")
    ivs = np.asarray(ivs, dtype=np.float64).ravel()
    if columns is None:
        cols = np.arange(X.shape[1], dtype=np.int64)
    else:
        cols = np.asarray(columns, dtype=np.int64).ravel()
    if cols.size != ivs.size:
        raise DataError("ivs length must match number of candidate columns")
    if cols.size == 0:
        return np.empty(0, dtype=np.int64)
    if block_size < 1:
        raise DataError("block_size must be >= 1")

    n_rows = X.shape[0]
    order = np.lexsort((np.arange(ivs.size), -ivs))
    panel = np.empty((n_rows, min(cols.size, block_size)), order="F")
    panel_constant = np.zeros(panel.shape[1], dtype=bool)
    n_kept = 0
    kept: list[int] = []

    # One reusable O(block * n) gather buffer when X's columns are
    # contiguous (the Fortran layout ``evaluate_forest`` blocks have):
    # each gather is then a straight per-column memcpy and the block is
    # standardized in place — zero per-block allocations. A row-major X
    # falls back to numpy's row-friendly fancy gather (a fresh C-order
    # block, standardized in place just the same).
    buf = (
        np.empty((n_rows, min(cols.size, block_size)), order="F")
        if X.flags.f_contiguous
        else None
    )

    for start in range(0, order.size, block_size):
        visit = order[start : start + block_size]
        block_cols = cols[visit]
        if buf is not None:
            B = buf[:, : visit.size]
            for t, c in enumerate(block_cols):
                B[:, t] = X[:, c]
        else:
            B = X[:, block_cols]
        Z, z_constant = standardize_columns(B, out=B)  # repro: ignore[inplace-alias] B is the owned gather buf or a fancy-index copy of X, never a view
        if n_kept:
            pre_max = max_abs_correlation(
                Z,
                panel[:, :n_kept],
                cand_constant=z_constant,
                kept_constant=panel_constant[:n_kept],
            )
        else:
            pre_max = np.full(visit.size, -np.inf)

        block_start = n_kept
        for i in range(visit.size):
            worst = pre_max[i]
            if n_kept > block_start:
                # Correlations against this block's earlier survivors.
                vals = panel[:, block_start:n_kept].T @ Z[:, i]
                vals[panel_constant[block_start:n_kept]] = 0.0
                if z_constant[i]:
                    vals[:] = 0.0
                np.clip(vals, -1.0, 1.0, out=vals)
                np.abs(vals, out=vals)
                worst = np.maximum(worst, vals.max())
            if n_kept == 0 or worst <= theta:
                if n_kept == panel.shape[1]:
                    panel, panel_constant = _grown_panel(
                        panel, panel_constant, cols.size
                    )
                panel[:, n_kept] = Z[:, i]
                panel_constant[n_kept] = z_constant[i]
                n_kept += 1
                kept.append(int(visit[i]))

    return np.sort(cols[np.asarray(kept, dtype=np.int64)])
