"""Shared quantization cache for batched Algorithm 2 scoring.

Ranking feature combinations (Algorithm 2) partitions the training rows
once per combination. The scalar path re-runs ``np.searchsorted`` for
every (combination, feature) pair even though a feature typically appears
in many combinations. :class:`IntervalCodeCache` removes that redundancy:

* each feature's **pooled** split values (the union over every combination
  that contains it) are sorted and the column is coded against them
  exactly once by :func:`~..tabular.binning.bin_codes` (the
  ``searchsorted`` codes, by comparison counting), producing *fine*
  interval codes;
* a combination's own split-value set is a subset of that union, so its
  *coarse* interval codes are a pure table lookup — ``lut[fine]`` where
  ``lut[c]`` counts the combination's values below fine interval ``c``;
* mixed-radix composition (``cell += stride * coarse``; ``stride *=
  |V_f| + 1``) then yields the same cell ids as the scalar
  :func:`~..metrics.information.cells_from_split_values`, bit for bit.

:func:`score_combinations` wires the cache into the vectorized
gain-ratio kernel, giving the batched ranking engine used by
``rank_combinations``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.registry import batched_kernel, chunk_mergeable, kernel_exempt
from ..exceptions import ConfigurationError
from ..metrics.batched import (
    _DENSE_CELL_FACTOR,
    _DENSE_CELL_FLOOR,
    gain_ratio_from_counts,
)
from ..metrics.information import entropy
from ..tabular.binning import bin_codes


class IntervalCodeCache:
    """Per-feature interval codes, computed once and shared.

    Parameters
    ----------
    X:
        The training matrix combinations are scored against.
    combos:
        The combinations whose features/split values will be requested;
        used to pool each feature's split-value union up front.
    label:
        Optional 0/1 vector (one per row). When given, it is folded into
        the stored fine codes as the lowest bit, so scoring kernels get
        label-interleaved codes for free (lookup tables carry or drop the
        bit as requested) — the label becomes just another radix digit.
    """

    def __init__(self, X: np.ndarray, combos, label: "np.ndarray | None" = None) -> None:
        self._X = np.asarray(X, dtype=np.float64)
        if self._X.ndim != 2:
            raise ConfigurationError("IntervalCodeCache expects a 2-D matrix")
        # Row-major transpose: every comparison pass of bin_codes then
        # reads a contiguous column instead of a strided view.
        self._XT = np.ascontiguousarray(self._X.T)
        self._label = None
        if label is not None:
            self._label = np.asarray(label).ravel().astype(np.int64)
            if self._label.size != self._X.shape[0]:
                raise ConfigurationError("label length must match X rows")
        pooled: dict[int, list] = {}
        for combo in combos:
            for f, values in zip(combo.features, combo.split_values):
                pooled.setdefault(int(f), []).append(
                    np.asarray(values, dtype=np.float64).ravel()
                )
        self._union: dict[int, np.ndarray] = {}
        self._fine: dict[int, np.ndarray] = {}
        for f, chunks in pooled.items():
            union = np.unique(np.concatenate(chunks)) if chunks else np.empty(0)
            self._union[f] = union
            self._fine[f] = self._fine_codes(f, union)

    def _fine_codes(self, f: int, union: np.ndarray) -> np.ndarray:
        # Raw codes, no missing code: NaN rows sort last (code
        # len(union)), and a +inf split value (the mining trees'
        # missing-vs-value threshold) is an ordinary edge.
        codes = bin_codes(self._XT[f], union).astype(np.int64)
        if self._label is not None:
            codes *= 2
            codes += self._label
        return codes

    def _lut(self, f: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(fine_codes, lut)`` mapping stored fine codes to coarse codes.

        ``lut`` is indexed by the *plain* fine interval (label bit not
        included); callers expand it when the cache carries a label.
        """
        if f not in self._union:
            # Feature unseen at construction: admit it with these values
            # as its (so far) whole union.
            self._union[f] = values
            self._fine[f] = self._fine_codes(f, values)
        union = self._union[f]
        fine = self._fine[f]
        if values.size == union.size:
            if not np.array_equal(values, union):
                raise ConfigurationError(
                    f"split values for feature {f} are not a subset of the "
                    "pooled union this cache was built from"
                )
            # The union *is* this combination's value set — fine == coarse.
            lut = np.arange(union.size + 1, dtype=np.int64)
        else:
            # values ⊆ union, both sorted & distinct, so positions are
            # exact; lut[c] = |{v in values : v < union interval c}| turns
            # fine codes into coarse codes with one O(n) take instead of
            # a fresh searchsorted over the rows. Both arrays are tiny, so
            # validating the subset assumption here is effectively free.
            positions = np.searchsorted(union, values, side="left")
            if (positions >= union.size).any() or not np.array_equal(
                union[np.minimum(positions, union.size - 1)], values
            ):
                raise ConfigurationError(
                    f"split values for feature {f} are not a subset of the "
                    "pooled union this cache was built from"
                )
            lut = np.searchsorted(
                positions, np.arange(union.size + 1), side="left"
            ).astype(np.int64)
        return fine, lut

    def _take(self, fine, lut, scale: int, include_label: bool) -> np.ndarray:
        """Gather ``scale * lut[...]`` per row, carrying the label bit if asked."""
        if self._label is None:
            if include_label:
                raise ConfigurationError(
                    "cache built without a label cannot emit labeled digits"
                )
            return (lut * scale)[fine]
        # Stored fine codes are 2*interval + label_bit: expand the tiny
        # lut to index them directly, optionally re-emitting the bit.
        expanded = np.repeat(lut * scale, 2)
        if include_label:
            expanded[1::2] += 1
        return expanded[fine]

    def interval_codes(self, f: int, values) -> tuple[np.ndarray, int]:
        """Interval code per row for feature ``f`` and split values ``values``.

        Returns ``(codes, n_values)`` where ``codes[i] ==
        searchsorted(unique(values), X[i, f], side='left')`` and
        ``n_values`` is the number of distinct split values (so the
        feature contributes ``n_values + 1`` intervals).
        """
        values = np.unique(np.asarray(values, dtype=np.float64).ravel())
        fine, lut = self._lut(int(f), values)
        return self._take(fine, lut, 1, include_label=False), int(values.size)

    def digit(
        self, f: int, values, scale: int, include_label: bool = False
    ) -> tuple[np.ndarray, int]:
        """One pre-scaled mixed-radix digit: ``scale * coarse_code`` per row.

        Scaling the tiny lookup table *before* the per-row take folds the
        stride multiplication into the same memory pass, so composing a
        combination's cells costs one take plus one add per feature.
        ``include_label`` additionally emits the cached label as the
        lowest bit (requires a label-built cache).
        """
        values = np.unique(np.asarray(values, dtype=np.float64).ravel())
        fine, lut = self._lut(int(f), values)
        return self._take(fine, lut, scale, include_label), int(values.size)

    @batched_kernel(oracle="cells_from_split_values")
    def cells(self, features, split_values) -> tuple[np.ndarray, int]:
        """Mixed-radix cell ids for one combination.

        Mirrors :func:`~..metrics.information.cells_from_split_values`:
        feature ``f`` with ``k`` distinct split values contributes radix
        ``k + 1``; the returned ``n_cells`` is the full radix product.
        """
        if len(features) != len(split_values):
            raise ConfigurationError(
                "feature_indices and split_values length mismatch"
            )
        if not len(features):
            raise ConfigurationError("need at least one feature to build cells")
        cell: "np.ndarray | None" = None
        stride = 1
        for f, values in zip(features, split_values):
            codes, n_values = self.digit(f, values, stride)
            if cell is None:
                cell = codes
            else:
                cell += codes
            stride *= n_values + 1
        return cell, int(stride)


@kernel_exempt("associative merge helper for combination count partials, not a kernel")
def merge_combination_counts(a: list, b: list) -> list:
    """Merge two :func:`combination_count_partial` results elementwise.

    Dense partials add; sparse partials union their labeled-code keys and
    add counts per key. Both operations are exact integer arithmetic, so
    merging is associative and bit-identical to a single-pass partial.
    """
    merged: list = []
    for pa, pb in zip(a, b):
        if pa is None or pb is None:
            merged.append(pa if pb is None else pb)
        elif pa[0] == "dense":
            merged.append(("dense", pa[1] + pb[1]))
        else:
            keys = np.unique(np.concatenate([pa[1], pb[1]]))
            counts = np.zeros(keys.size, dtype=np.int64)
            counts[np.searchsorted(keys, pa[1])] += pa[2]
            counts[np.searchsorted(keys, pb[1])] += pb[2]
            merged.append(("sparse", keys, counts))
    return merged


@batched_kernel(oracle="information_gain_ratio")
@chunk_mergeable(merge=merge_combination_counts, exact=True)
def combination_count_partial(
    X_chunk: np.ndarray,
    y_chunk: np.ndarray,
    combos,
    dense_limit: int,
) -> list:
    """Labeled-cell counts of every combination for one row chunk.

    The sufficient statistic of Algorithm 2 ranking: one entry per
    combination — ``None`` for empty combinations, ``("dense", counts)``
    (a length-``stride`` labeled-cell bincount) when the labeled radix
    fits ``dense_limit``, else ``("sparse", keys, counts)`` (the chunk's
    occupied labeled codes and their counts). Pooled split-value unions
    are data-independent, so every chunk builds an identical
    :class:`IntervalCodeCache` layout and partials merge positionally by
    :func:`merge_combination_counts`, bit-identically.

    ``dense_limit`` must come from the *total* row count (see
    :func:`score_combinations`) so all chunks pick the same shape.
    """
    y_chunk = np.asarray(y_chunk).ravel()
    y01 = (y_chunk == 1).astype(np.int64)
    cache = IntervalCodeCache(X_chunk, combos, label=y01)
    partials: list = []
    for combo in combos:
        if not combo.features:
            partials.append(None)
            continue
        labeled: "np.ndarray | None" = None
        stride = 2  # digit 0 is the label, emitted by the first feature
        for f, values in zip(combo.features, combo.split_values):
            codes, n_values = cache.digit(
                f, values, stride, include_label=labeled is None
            )
            if labeled is None:
                labeled = codes
            else:
                labeled += codes
            stride *= n_values + 1
        if 0 < stride <= dense_limit:
            partials.append(("dense", np.bincount(labeled, minlength=stride)))
        else:
            keys, counts = np.unique(labeled, return_counts=True)
            partials.append(("sparse", keys.astype(np.int64), counts))
    return partials


@batched_kernel(oracle="information_gain_ratio")
def gain_ratio_from_combination_counts(
    partials: list,
    n_rows: int,
    base_entropy: float,
) -> np.ndarray:
    """Finalize per-combination gain ratios from merged count partials.

    Dense partials reshape straight into the interleaved ``(cell, class)``
    table; sparse partials regroup their labeled codes (``2 * cell + y``)
    into the same occupied-cells-ascending table the in-memory
    unique-based path builds. Counts are exact integers, so the streamed
    gain ratios are bit-identical to :func:`score_combinations` over the
    materialized rows.
    """
    out = np.zeros(len(partials))
    for i, part in enumerate(partials):
        if part is None:
            continue
        if part[0] == "dense":
            both = part[1].reshape(-1, 2)
        else:
            keys, counts = part[1], part[2]
            cells = keys >> 1
            unique_cells = np.unique(cells)
            both = np.zeros((unique_cells.size, 2), dtype=np.int64)
            both[np.searchsorted(unique_cells, cells), keys & 1] += counts
        out[i] = gain_ratio_from_counts(both, n_rows, base_entropy)
    return out


@batched_kernel(oracle="information_gain_ratio")
def score_combinations(X: np.ndarray, y: np.ndarray, combos) -> np.ndarray:
    """Gain ratio for every combination, through the shared code cache.

    Returns one float per element of ``combos`` (0.0 for empty
    combinations), numerically identical to the scalar
    ``information_gain_ratio(y, cells_from_split_values(...))`` chain.

    The binary label rides along as the lowest mixed-radix digit, so each
    combination costs one pre-scaled table take per feature plus a single
    interleaved ``bincount`` — no per-cell work, no second pass for the
    label counts. This is the one-chunk composition of
    :func:`combination_count_partial` and
    :func:`gain_ratio_from_combination_counts`; streaming callers run the
    same two halves over many chunks.
    """
    y = np.asarray(y).ravel()
    n = y.size
    base = entropy(y)
    dense_limit = 2 * max(
        _DENSE_CELL_FACTOR * n, _DENSE_CELL_FLOOR
    )  # labeled radix = 2 * n_cells
    partials = combination_count_partial(
        np.asarray(X, dtype=np.float64), y, combos, dense_limit
    )
    return gain_ratio_from_combination_counts(partials, n, base)
